"""served_rw: two connections, about 85% reads and 15% writes, against ``python -m repro.serve``.

Closed loop, two client threads, each with its own connection, against a
server in its own process (plan cache on, 4 segments), so the load generator
does not share the server's interpreter lock.  The reads are prepared point
lookups, index-range aggregates sent as ``query`` with varying literals (so
they pass through normalization and the plan cache), materialized-view reads
and a few bitmap-filtered aggregates; the writes are small multi-row INSERTs
into an append-only table with an incremental GROUP BY view, and point
UPDATEs.  Serving, the plan cache, the parser, indexes, the view's delta fold
and table appends do the work; the worker pool is never used.  Writes keep
invalidating per-segment caches that olap_mix keeps warm.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from .common import (
    ROOT,
    HostProbe,
    Latencies,
    Phase,
    Tracer,
    WorkloadResult,
    check,
    children_peak_rss_mb,
    each_core,
    median,
    tail,
    timed_setups,
    traced_common,
    untraced_result,
    write_spans,
)
from .layers import StatementRecord, examined_per_row, statement_metrics

ACCT_ROWS = 100_000
EVENT_ROWS = 100_000
SEGMENTS = 4
PLAN_CACHE = 256
CLIENTS = 2
KINDS = 16
BRANCHES = 64
BAL_MOD = 10007
INSERT_ROWS = 20
#: Operations of each client's stream replayed in the traced run.
REPLAY_OPS = 150
FLOOR_SAMPLES = 200
#: Seconds between host probes during a timed phase.
PROBE_EVERY = 0.5

#: The operation mix: (kind, share of operations).
MIX = (("point", 0.45), ("range", 0.20), ("mv", 0.12), ("bitmap", 0.08),
       ("insert", 0.08), ("update", 0.07))
DECK = 100
READS = ("point", "range", "mv", "bitmap")
POINT_SQL = "SELECT id, bal FROM acct WHERE id = %(id)s"
MV_SQL = "SELECT kind, n, total FROM ev_by_kind"


@dataclass
class Params:
    """Seeded constants of the generating expressions (no server-side random())."""

    seed: int
    acct_rows: int
    event_rows: int
    a: List[int]
    b: List[int]

    def setup_sql(self) -> List[str]:
        a, b = self.a, self.b
        return [
            "CREATE TABLE acct (id INTEGER, bal DOUBLE PRECISION, branch INTEGER)",
            f"INSERT INTO acct SELECT g.i, ((g.i * {a[0]} + {b[0]}) % {BAL_MOD}) * 0.25, "
            f"(g.i * {a[1]} + {b[1]}) % {BRANCHES} FROM generate_series(1, {self.acct_rows}) g(i)",
            "CREATE INDEX acct_id ON acct (id)",
            "CREATE TABLE events (id INTEGER, acct INTEGER, kind INTEGER, amount DOUBLE PRECISION)",
            f"INSERT INTO events SELECT g.i, (g.i * {a[2]} + {b[2]}) % {self.acct_rows} + 1, "
            f"(g.i * {a[3]} + {b[3]}) % {KINDS}, ((g.i * {a[4]} + {b[4]}) % 400) * 0.25 "
            f"FROM generate_series(1, {self.event_rows}) g(i)",
            "CREATE MATERIALIZED VIEW ev_by_kind AS "
            "SELECT kind, count(*) AS n, sum(amount) AS total FROM events GROUP BY kind",
            "ANALYZE",
        ]

    # The same expressions evaluated here, for the oracle.
    def initial_acct(self):
        i = np.arange(1, self.acct_rows + 1, dtype=np.int64)
        bal = ((i * self.a[0] + self.b[0]) % BAL_MOD) * 0.25
        branch = (i * self.a[1] + self.b[1]) % BRANCHES
        return i, bal, branch

    def initial_events(self):
        i = np.arange(1, self.event_rows + 1, dtype=np.int64)
        kind = (i * self.a[3] + self.b[3]) % KINDS
        amount = ((i * self.a[4] + self.b[4]) % 400) * 0.25
        return kind, amount


def make_params(seed: int) -> Params:
    rng = np.random.default_rng([seed, 2])
    return Params(
        seed=seed,
        acct_rows=ACCT_ROWS,
        event_rows=EVENT_ROWS,
        a=[int(x) | 1 for x in rng.integers(1001, 99999, 5)],
        b=[int(x) for x in rng.integers(0, 9999, 5)],
    )


@dataclass
class Op:
    kind: str
    sql: str  # literal SQL (what ``query`` sends, and what the replay runs)
    point_id: int = 0
    width: int = 0
    branch: int = 0
    rows: List[tuple] = field(default_factory=list)  # INSERT rows
    delta: float = 0.0  # UPDATE increment


def op_stream(params: Params, client: int) -> Iterator[Op]:
    """The seeded operation stream of one client (and of the replay).

    Kinds are dealt from shuffled decks of ``DECK`` cards in the ``MIX``
    shares, so every run does the mix exactly, whatever the seed.
    """
    rng = np.random.default_rng([params.seed, 3, client])
    deck = [kind for kind, share in MIX for _ in range(round(share * DECK))]
    n = params.acct_rows
    next_event = 10_000_000 * (client + 1)
    while True:
        for card in rng.permutation(len(deck)):
            kind = deck[card]
            if kind == "point":
                key = int(rng.integers(1, n + 1))
                yield Op(kind, f"SELECT id, bal FROM acct WHERE id = {key}", point_id=key)
            elif kind == "range":
                width = int(rng.integers(50, 200))
                lo = int(rng.integers(1, n - width))
                yield Op(kind, "SELECT count(*), sum(bal) FROM acct "
                         f"WHERE id BETWEEN {lo} AND {lo + width}", width=width)
            elif kind == "mv":
                yield Op(kind, MV_SQL)
            elif kind == "bitmap":
                branch = int(rng.integers(0, BRANCHES))
                yield Op(kind, f"SELECT count(*), sum(id) FROM acct WHERE branch = {branch}",
                         branch=branch)
            elif kind == "insert":
                rows = []
                for _ in range(INSERT_ROWS):
                    next_event += 1
                    rows.append((next_event, int(rng.integers(1, n + 1)),
                                 int(rng.integers(0, KINDS)), int(rng.integers(1, 400)) * 0.25))
                values = ", ".join(f"({r[0]}, {r[1]}, {r[2]}, {r[3]!r})" for r in rows)
                yield Op(kind, f"INSERT INTO events VALUES {values}", rows=rows)
            else:
                key = int(rng.integers(1, n + 1))
                delta = int(rng.integers(1, 8)) * 0.25
                yield Op(kind, f"UPDATE acct SET bal = bal + {delta!r} WHERE id = {key}",
                         delta=delta)


def one_of_each_kind(stream: Iterator[Op]) -> Iterator[Op]:
    """The first op of each kind the stream deals, skipping the rest."""
    pending = {kind for kind, _ in MIX}
    while pending:
        op = next(stream)
        if op.kind in pending:
            pending.discard(op.kind)
            yield op


@dataclass
class Ledger:
    """Writes the server acknowledged, and writes whose outcome is unknown."""

    event_rows: List[tuple] = field(default_factory=list)
    bal_delta: float = 0.0
    doubt_rows: int = 0
    doubt_amount: float = 0.0
    doubt_delta: float = 0.0

    def merge(self, other: "Ledger") -> None:
        self.event_rows.extend(other.event_rows)
        self.bal_delta += other.bal_delta
        self.doubt_rows += other.doubt_rows
        self.doubt_amount += other.doubt_amount
        self.doubt_delta += other.doubt_delta


class Server:
    """``python -m repro.serve`` in its own process, pinned to the server core."""

    def __init__(self, cores: Set[int]) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--segments", str(SEGMENTS),
             "--plan-cache", str(PLAN_CACHE)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        # Before the banner: the server starts its threads only after it, and
        # they inherit the main thread's affinity.
        os.sched_setaffinity(self.process.pid, cores)
        banner = self.process.stdout.readline()
        match = re.search(r"serving on ([\d.]+):(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


@dataclass
class State:
    server: Server
    clients: List[Any]
    handles: List[str]
    streams: List[Iterator[Op]]
    ledger: Ledger
    server_cores: Set[int]
    client_cores: Set[int]


def _expected_branches(params: Params) -> Dict[int, tuple]:
    ids, _, branch = params.initial_acct()
    return {b: (int((branch == b).sum()), int(ids[branch == b].sum())) for b in range(BRANCHES)}


class Client:
    """One connection's closed loop: send, time to last byte, check, record."""

    def __init__(self, connection, handle: str, params: Params, branches: Dict[int, tuple],
                 tracer: Optional[Tracer]) -> None:
        self.connection = connection
        self.handle = handle
        self.params = params
        self.branches = branches
        self.tracer = tracer
        self.latencies: Latencies = {kind: [] for kind, _ in MIX}
        self.ledger = Ledger()
        self.attempted = 0
        self.failed = 0
        self.checking = 0.0

    def send(self, op: Op):
        if op.kind == "point":
            return self.connection.execute(self.handle, {"id": op.point_id})
        return self.connection.query(op.sql)

    def run_one(self, op: Op, op_id: str) -> bool:
        """Run one operation; False when the connection is gone."""
        from repro.engine.serving import RemoteError

        self.attempted += 1
        try:
            if self.tracer is None:
                began = time.perf_counter()
                result = self.send(op)
                elapsed = time.perf_counter() - began
            else:
                with self.tracer.span(op.kind, op=op_id) as span:
                    result = self.send(op)
                began, elapsed = span["start"], span["end"] - span["start"]
        except RemoteError as exc:
            self.failed += 1
            if exc.code == "TIMEOUT":  # the statement may still commit
                self._in_doubt(op)
            return True
        except (OSError, ConnectionError):
            self.failed += 1
            self._in_doubt(op)
            return False
        self.latencies[op.kind].append((began, elapsed))
        began = time.perf_counter()
        self.check(op, result)
        self.checking += time.perf_counter() - began
        return True

    def _in_doubt(self, op: Op) -> None:
        if op.kind == "insert":
            self.ledger.doubt_rows += len(op.rows)
            self.ledger.doubt_amount += sum(r[3] for r in op.rows)
        elif op.kind == "update":
            self.ledger.doubt_delta += op.delta

    def check(self, op: Op, result) -> None:
        rows = result.rows
        if op.kind == "point":
            check(len(rows) == 1 and rows[0][0] == op.point_id,
                  f"point lookup of id {op.point_id} returned {rows!r}")
        elif op.kind == "range":
            check(rows[0][0] == op.width + 1, f"range count {rows[0][0]} != {op.width + 1}")
        elif op.kind == "mv":
            check(sorted(r[0] for r in rows) == list(range(KINDS)), "view lost a group")
            check(sum(r[1] for r in rows) >= self.params.event_rows, "view count shrank")
        elif op.kind == "bitmap":
            check(tuple(rows[0]) == self.branches[op.branch], f"branch {op.branch} aggregate differs")
        elif op.kind == "insert":
            check(result.rowcount == len(op.rows), "INSERT row count differs")
            self.ledger.event_rows.extend(op.rows)
        else:
            check(result.rowcount == 1, "UPDATE did not change exactly one row")
            self.ledger.bal_delta += op.delta


def build(params: Params, load_rates: List[float], server_cores: Set[int],
          client_cores: Set[int], lap: Callable[[], None]) -> State:
    """Start the server, load it through SQL, connect, prepare and warm up."""
    from repro.engine.serving import ServingClient

    server = Server(server_cores)
    try:
        lap()
        with ServingClient(server.host, server.port) as admin:
            for sql in params.setup_sql():
                start = time.perf_counter()
                result = admin.query(sql)
                if sql.startswith("INSERT"):
                    load_rates.append(result.rowcount / (time.perf_counter() - start))
                lap()
        connections = [ServingClient(server.host, server.port) for _ in range(CLIENTS)]
        handles = [c.prepare(POINT_SQL) for c in connections]
        lap()
        state = State(server, connections, handles,
                      [op_stream(params, c) for c in range(CLIENTS)], Ledger(), server_cores,
                      client_cores)
        # Warm-up: one operation of every kind per connection (writes count in
        # the ledger), so lazy caches and plan-cache entries exist before timing.
        warm = op_stream(params, CLIENTS)
        branches = _expected_branches(params)
        for connection, handle in zip(connections, handles):
            client = Client(connection, handle, params, branches, None)
            for op in one_of_each_kind(warm):
                client.run_one(op, "warm")
            state.ledger.merge(client.ledger)
        return state
    except BaseException:
        server.stop()
        raise


def teardown(state: State) -> None:
    try:
        for connection in state.clients:
            connection.close()
    finally:
        state.server.stop()


class Gate:
    """Parks every client between operations so the host can be probed while
    the server is idle."""

    def __init__(self, clients: int) -> None:
        self._cond = threading.Condition()
        self._closed = False
        self._parked = 0
        self._running = clients

    def checkpoint(self) -> None:
        """Called by a client before each operation."""
        with self._cond:
            if self._closed:
                self._parked += 1
                self._cond.notify_all()
                self._cond.wait_for(lambda: not self._closed)
                self._parked -= 1

    def leave(self) -> None:
        """Called by a client thread as it ends."""
        with self._cond:
            self._running -= 1
            self._cond.notify_all()

    @contextmanager
    def closed(self) -> Iterator[None]:
        with self._cond:
            self._closed = True
            self._cond.wait_for(lambda: self._parked >= self._running, timeout=60)
        try:
            yield
        finally:
            with self._cond:
                self._closed = False
                self._cond.notify_all()


def run_phase(state: State, params: Params, seconds: float, traced: bool) -> Phase:
    from repro.engine.serving import ServingClient

    branches = _expected_branches(params)
    clients = [Client(state.clients[i], state.handles[i], params, branches,
                      Tracer(f"c{i}.") if traced else None) for i in range(CLIENTS)]
    errors: List[BaseException] = []
    stop = threading.Event()
    gate = Gate(CLIENTS)

    def loop(index: int) -> None:
        client = clients[index]
        stream = state.streams[index]
        try:
            while not stop.is_set() and time.perf_counter() < deadline:
                gate.checkpoint()
                if not client.run_one(next(stream), f"c{index}.{client.attempted}"):
                    break
        except BaseException as exc:  # surfaced to the main thread below
            errors.append(exc)
            stop.set()
        finally:
            gate.leave()

    probe = HostProbe([state.server_cores, state.client_cores])
    paused = 0.0
    with ServingClient(state.server.host, state.server.port) as control:
        probe.sample()
        before = control.stats()
        start = time.perf_counter()
        deadline = start + seconds
        threads = [threading.Thread(target=loop, args=(i,)) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        # Every PROBE_EVERY seconds park both clients and time the reference
        # computation on both cores; the parked time is not busy time.
        while time.perf_counter() + PROBE_EVERY < deadline and not stop.is_set():
            time.sleep(PROBE_EVERY)
            with gate.closed():
                paused += probe.sample()
        for thread in threads:
            thread.join(timeout=seconds + 120)
        wall = time.perf_counter() - start
        check(not any(t.is_alive() for t in threads), "a client thread did not finish")
        after = control.stats()
        probe.sample()
    if errors:
        raise errors[0]
    latencies: Latencies = {kind: [] for kind, _ in MIX}
    spans: List[Dict[str, Any]] = []
    for client in clients:
        state.ledger.merge(client.ledger)
        for kind, values in client.latencies.items():
            latencies[kind].extend(values)
        if client.tracer is not None:
            spans.extend(client.tracer.spans)
    # Threads check answers concurrently; subtract the mean per-client share.
    checking = sum(c.checking for c in clients) / CLIENTS
    return Phase(latencies, sum(c.attempted for c in clients), sum(c.failed for c in clients),
                 wall - checking - paused, probe, {"spans": spans, "before": before, "after": after})


def verify_final(state: State, params: Params) -> None:
    """After the timed phase: data and view match the acknowledged writes."""
    from repro.engine.serving import ServingClient

    ledger = state.ledger
    _, bal, _ = params.initial_acct()
    kind, amount = params.initial_events()
    with ServingClient(state.server.host, state.server.port) as c:
        count, total = c.query("SELECT count(*), sum(bal) FROM acct").rows[0]
        check(count == params.acct_rows, "acct row count changed")
        want = float(bal.sum()) + ledger.bal_delta
        check(want <= total <= want + ledger.doubt_delta, f"sum(bal) {total} != acknowledged {want}")
        count, total = c.query("SELECT count(*), sum(amount) FROM events").rows[0]
        want_count = params.event_rows + len(ledger.event_rows)
        want_total = float(amount.sum()) + sum(r[3] for r in ledger.event_rows)
        check(want_count <= count <= want_count + ledger.doubt_rows,
              f"events count {count} != acknowledged {want_count}")
        check(want_total <= total <= want_total + ledger.doubt_amount,
              f"sum(amount) {total} != acknowledged {want_total}")
        view = c.query(MV_SQL + " ORDER BY kind").rows
        query = c.query("SELECT kind, count(*), sum(amount) FROM events GROUP BY kind ORDER BY kind").rows
        check(view == query, "materialized view differs from its defining query")
        if ledger.doubt_rows == 0:
            counts = np.bincount(kind, minlength=KINDS).astype(float)
            sums = np.bincount(kind, weights=amount, minlength=KINDS)
            for row in ledger.event_rows:
                counts[row[2]] += 1
                sums[row[2]] += row[3]
            expected = [(k, int(counts[k]), float(sums[k])) for k in range(KINDS)]
            check([tuple(r) for r in view] == expected, "view differs from the acknowledged inserts")


def _counter_delta(phase: Phase, section: str, key: str) -> float:
    before = (phase.detail["before"].get(section) or {}).get(key, 0)
    after = (phase.detail["after"].get(section) or {}).get(key, 0)
    return float(after - before)


def replay(params: Params) -> Dict[str, float]:
    """Re-run a seeded sample of the op stream on an embedded engine, layer by layer.

    Each operation takes the server's path: ``query`` ops run through
    ``Database.execute`` with the plan cache on, point ops through the
    prepared statement.  Around that call the replay times normalization and
    the plan-cache lookup itself, and on a miss parses the fingerprint into
    the cache (``PlanCache.insert``) before the call — so parse time is counted
    only where the server parses, and the call then finds its plan cached.
    Execution is the call's time less the normalization and lookup it
    repeats.  The cache is warmed with one op of each kind first, as the
    server's is before its timed phase.
    """
    from repro import Database
    from repro.engine.plancache import normalize_statement

    db = Database(num_segments=SEGMENTS, plan_cache=PLAN_CACHE)
    try:
        for sql in params.setup_sql():
            db.execute(sql)
        prepared = db.prepare(POINT_SQL)
        cache = db.plan_cache

        def run_op(op: Op) -> Tuple[StatementRecord, Optional[float], float]:
            """The op's record, normalization seconds (None for a prepared
            point op, which is never normalized) and lookup seconds."""
            normalize_s = None
            if op.kind == "point":
                fingerprint = prepared.fingerprint
            else:
                began = time.perf_counter()
                fingerprint = normalize_statement(op.sql).fingerprint
                normalize_s = time.perf_counter() - began
            began = time.perf_counter()
            entry = cache.lookup(fingerprint, db.catalog)
            lookup_s = time.perf_counter() - began
            parse_s = 0.0
            if entry is None:
                began = time.perf_counter()
                entry = cache.insert(fingerprint, db.catalog)
                parse_s = time.perf_counter() - began
            began = time.perf_counter()
            if op.kind == "point":
                result = prepared.execute({"id": op.point_id})
            else:
                result = db.execute(op.sql)
            total_s = time.perf_counter() - began
            exec_s = max(total_s - (normalize_s or 0.0) - lookup_s, 0.0)
            record = StatementRecord(
                op.kind, parse_s, exec_s, result.stats,
                getattr(entry.statement, "where", None) is not None,
                len(result.rows) if op.kind in READS else result.rowcount)
            return record, normalize_s, lookup_s

        for op in one_of_each_kind(op_stream(params, CLIENTS)):
            run_op(op)
        streams = [op_stream(params, c) for c in range(CLIENTS)]
        timed = [run_op(next(stream)) for _ in range(REPLAY_OPS) for stream in streams]
    finally:
        db.close()
    records = [record for record, _, _ in timed]
    normalize = [seconds for _, seconds, _ in timed if seconds is not None]
    lookup = [seconds for _, _, seconds in timed]
    metrics = statement_metrics(records, segment_shapes=False)
    for name in ("join.rows_emitted", "join.hash_frac"):
        metrics.pop(name)  # served_rw joins nothing
    for kind, _ in MIX:
        # Mean over the kind's ops, a hit counting 0: the parse time the
        # server pays per operation of that kind.
        group = [r.parse_s for r in records if r.shape == kind]
        metrics[f"parser.parse_ms.{kind}"] = sum(group) / len(group) * 1e3 if group else 0.0
    for kind in ("point", "range", "update", "mv"):
        ratio = examined_per_row(records, kind)
        if ratio is not None:
            metrics[f"executor.examined_per_row.{kind}"] = ratio
    metrics["plancache.normalize_ms"] = median(normalize) * 1e3
    metrics["plancache.lookup_ms"] = median(lookup) * 1e3
    metrics["matview.deltas_applied"] = sum(r.stats.matview_deltas_applied for r in records)
    metrics["matview.recomputes"] = sum(r.stats.matview_recomputes for r in records)
    metrics["matview.read_ms"] = median([r.exec_s for r in records if r.shape == "mv"]) * 1e3
    return metrics


def serving_floor_ms(state: State) -> float:
    """Client round trip of a prepared statement that does no work."""
    connection = state.clients[0]
    handle = connection.prepare("SELECT 1")
    samples = []
    for _ in range(FLOOR_SAMPLES):
        began = time.perf_counter()
        connection.execute(handle)
        samples.append(time.perf_counter() - began)
    return median(samples) * 1e3


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    params = make_params(seed)
    load_rates: List[float] = []
    # The server gets one core and the clients the other, so the host probe
    # can time the cores the work ran on (each core's speed drifts on its own).
    server_cores, client_cores = each_core()
    home = os.sched_getaffinity(0)
    # Client threads inherit the main thread's core.
    os.sched_setaffinity(0, client_cores)
    try:
        state, setups = timed_setups(
            lambda lap: build(params, load_rates, server_cores, client_cores, lap), teardown,
            [server_cores, client_cores])
        try:
            if not trace:
                phase = run_phase(state, params, seconds, traced=False)
            else:
                plain = run_phase(state, params, seconds / 2, traced=False)
                phase = run_phase(state, params, seconds / 2, traced=True)
                floor_ms = serving_floor_ms(state)
            verify_final(state, params)
        finally:
            teardown(state)
    finally:
        os.sched_setaffinity(0, home)
    if not trace:
        # The server processes have ended and been waited for.
        return untraced_result(phase, setups, children_peak_rss_mb())

    metrics = replay(params)
    hits = _counter_delta(phase, "plan_cache", "hits")
    misses = _counter_delta(phase, "plan_cache", "misses")
    metrics["plancache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for counter in ("shed", "timed_out", "cancelled"):
        metrics[f"serving.{counter}"] = _counter_delta(plain, "server", counter) + _counter_delta(
            phase, "server", counter)
    metrics["serving.floor_ms"] = floor_ms
    notes = []
    for label, kinds in (("read", READS), ("write", ("insert", "update"))):
        samples = phase.seconds(*kinds)
        value, percentile, beyond = tail(samples)
        metrics[f"serving.{label}_p50_ms"] = median(samples) * 1e3
        metrics[f"serving.{label}_tail_ms"] = value * 1e3
        notes.append(f"serving.{label}_tail_ms is p{percentile} of {len(samples)} samples "
                     f"({beyond} beyond it)")
    metrics.update(traced_common(plain, phase, load_rates))
    path = write_spans(phase.detail["spans"], "served_rw", seed)
    notes.append(f"spans written to {path.relative_to(ROOT)}")
    return WorkloadResult(plain.attempted + phase.attempted, plain.failed + phase.failed,
                          metrics, notes)
